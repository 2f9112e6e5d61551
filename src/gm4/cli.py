"""Command line interface.

Exit codes: 0 success (or comparison "Yes"), 10 comparison "No",
11 comparison "Inconclusive", 12 validation or parse failure.
Results go to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import assembly, manifest, meyer
from .bundles import UnsupportedOperationError
from .gl2z import NotInSL2ZError, classify

EXIT_OK = 0
EXIT_NO = 10
EXIT_INCONCLUSIVE = 11
EXIT_INVALID = 12


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> assembly.GraphStructure:
    return manifest.load_structure(_read(path))


def cmd_validate(args) -> int:
    try:
        gs = _load(args.file)
    except (manifest.ManifestError, OSError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    diags = assembly.validate_structure(gs)
    if diags:
        for d in diags:
            print(f"{args.file}: {d}", file=sys.stderr)
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_invariants(args) -> int:
    try:
        gs = _load(args.file)
        report = assembly.invariant_report(gs)
    except (manifest.ManifestError, assembly.StructureError, OSError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(report.render())
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        gs = _load(args.file)
        reduced = assembly.reduce_structure(gs)
    except (
        manifest.ManifestError,
        assembly.StructureError,
        assembly.ClosedBaseError,
        UnsupportedOperationError,
        OSError,
    ) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(manifest.dump_structure(reduced))
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        gs1, gs2 = _load(args.file1), _load(args.file2)
        result = assembly.isomorphic_reduced(gs1, gs2, search_bound=args.search_bound)
    except (
        manifest.ManifestError,
        assembly.StructureError,
        assembly.NotReducedError,
        OSError,
    ) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_INVALID
    if result.verdict == "yes":
        print(f"Yes ({result.witness})")
        return EXIT_OK
    if result.verdict == "no":
        print(f"No (separated by {result.separating})")
        return EXIT_NO
    print("Inconclusive")
    return EXIT_INCONCLUSIVE


def cmd_matclass(args) -> int:
    try:
        m = manifest.parse_matrix(args.matrix, 1)
        cls = classify(m)
    except (manifest.ManifestError, NotInSL2ZError) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_INVALID
    print(cls)
    return EXIT_OK


def cmd_psi(args) -> int:
    try:
        m = manifest.parse_matrix(args.matrix, 1)
        value = meyer.psi(m)
    except (manifest.ManifestError, NotInSL2ZError) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_INVALID
    print(value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gm4",
        description="4-dimensional graph-manifold structures: validation, "
        "invariants, reduction and comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a .gm manifest")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="print the invariant report")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reduce", help="contract fiber-preserving glueings")
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("compare", help="compare two reduced structures")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--search-bound", type=int, default=4)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("matclass", help="SL(2,Z) conjugacy class of a matrix")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_matclass)

    p = sub.add_parser("psi", help="characteristic function value of a matrix")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_psi)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
