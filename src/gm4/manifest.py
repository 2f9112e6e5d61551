"""Plain-text manifest format for graph structures (.gm files).

Example:

    version 1
    block A
      base orientable genus 0 boundaries 3
      gen c1 [[1,1],[0,1]]
      gen c2 [[1,2],[0,1]]
    end
    block B
      base orientable genus 0 boundaries 3
      labels p q r
      gen c1 [[1,-1],[0,1]]
      gen c2 [[1,-2],[0,1]]
    end
    glue A.1 B.p
      x (1,0,0)
      y (0,1,0)
      t (0,0,-1)
    end

Matrices are [[a,b],[c,d]]; pi1 images are (a,b,k) normal forms in the
target boundary bundle.  Boundary labels default to 1..b.  Lines starting
with # are comments.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .gl2z import Mat2, parse_int
from .bundles import (
    Block,
    BoundaryIso,
    Pi1Element,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
)
from .assembly import Edge, GraphStructure, structure


class ManifestError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_MATRIX_RE = re.compile(
    r"^\[\[(-?\d+),(-?\d+)\],\[(-?\d+),(-?\d+)\]\]$"
)
_TRIPLE_RE = re.compile(r"^\((-?\d+),(-?\d+),(-?\d+)\)$")
# how many generator names past the declared ones a missing-images
# diagnostic lists at most
_NAMES_PAST_DECLARED = 20


def parse_matrix(text: str, line: int = 0, col: int = 1) -> Mat2:
    m = _MATRIX_RE.match(text.replace(" ", ""))
    if not m:
        raise ManifestError(f"expected matrix [[a,b],[c,d]], got {text!r}", line, col)
    mat = Mat2(*map(parse_int, m.groups()))
    det = mat.det()
    if det not in (1, -1):
        # a determinant of long entries is too long to show (or for str())
        shown = det if det.bit_length() < 8000 else f"of {det.bit_length()} bits"
        raise ManifestError(f"determinant {shown}, not unimodular: {text}", line, col)
    return mat


def parse_triple(text: str, line: int = 0, col: int = 1) -> Pi1Element:
    m = _TRIPLE_RE.match(text.replace(" ", ""))
    if not m:
        raise ManifestError(f"expected pi1 image (a,b,k), got {text!r}", line, col)
    return Pi1Element(*map(parse_int, m.groups()))


@dataclass
class BlockDecl:
    label: str
    line: int
    base_line: int = 0
    orientable: Optional[bool] = None
    genus: int = 0
    boundaries: int = 0
    labels: Optional[Tuple[str, ...]] = None
    gens: Dict[str, Mat2] = field(default_factory=dict)
    gen_lines: Dict[str, int] = field(default_factory=dict)


@dataclass
class GlueDecl:
    end1: Tuple[str, str]
    end2: Tuple[str, str]
    line: int
    images: Dict[str, Pi1Element] = field(default_factory=dict)


@dataclass
class Manifest:
    version: int
    blocks: List[BlockDecl]
    glues: List[GlueDecl]

    def to_structure(self) -> GraphStructure:
        blocks: Dict[str, Block] = {}
        for decl in self.blocks:
            try:
                surface = SurfaceWithBoundary(decl.orientable, decl.genus, decl.boundaries)
            except ValueError as exc:
                raise ManifestError(f"block {decl.label}: {exc}", decl.base_line) from None
            # the base may ask for more names than the file declares: name at
            # most _NAMES_PAST_DECLARED more, which are all there are if none is missing
            count = min(surface.pi1_rank(), len(decl.gens) + _NAMES_PAST_DECLARED)
            names = [surface.generator_name(i) for i in range(count)]
            missing = [n for n in names if n not in decl.gens]
            if missing:
                more = len(names) < surface.pi1_rank()
                raise ManifestError(
                    f"block {decl.label}: missing generator images {missing}{' and more' if more else ''}"
                    f" (convention order: {', '.join(names)}{', ...' if more else ''})",
                    decl.line,
                )
            known = set(names)
            extra = [n for n in decl.gens if n not in known]
            if extra:
                raise ManifestError(
                    f"block {decl.label}: unknown generators {extra}",
                    decl.gen_lines[extra[0]],
                )
            labels = decl.labels or tuple(
                str(i) for i in range(1, decl.boundaries + 1)
            )
            if len(labels) != decl.boundaries:
                raise ManifestError(
                    f"block {decl.label}: {len(labels)} labels for "
                    f"{decl.boundaries} boundary components",
                    decl.line,
                )
            blocks[decl.label] = Block(surface, tuple(decl.gens[n] for n in names), labels)
        edges = []
        for glue in self.glues:
            for end in (glue.end1, glue.end2):
                if end[0] not in blocks:
                    raise ManifestError(f"unknown block label {end[0]!r}", glue.line)
                if end[1] not in blocks[end[0]].boundary_labels():
                    raise ManifestError(
                        f"unknown boundary label {end[0]}.{end[1]}", glue.line
                    )
            for gen in ("x", "y", "t"):
                if gen not in glue.images:
                    raise ManifestError(
                        f"glue {glue.end1[0]}.{glue.end1[1]} {glue.end2[0]}.{glue.end2[1]}: "
                        f"missing image of {gen}",
                        glue.line,
                    )
            src = TorusBundleOverCircle(
                blocks[glue.end1[0]].monodromies[glue.end1[1]]
            )
            tgt = TorusBundleOverCircle(
                blocks[glue.end2[0]].monodromies[glue.end2[1]]
            )
            iso = BoundaryIso(
                src, tgt, glue.images["x"], glue.images["y"], glue.images["t"]
            )
            edges.append(Edge(glue.end1, glue.end2, iso))
        return structure(blocks, edges)


def _end_ref(token: str, line: int) -> Tuple[str, str]:
    if "." not in token:
        raise ManifestError(
            f"expected block.boundary reference, got {token!r}", line
        )
    blk, _, bd = token.partition(".")
    if not blk or not bd:
        raise ManifestError(
            f"expected block.boundary reference, got {token!r}", line
        )
    return (blk, bd)


def _parse_token(parse_token, token: str, raw: str, index: int, line: int):
    """parse_token(token, line) for the index-th token of the line raw.  A
    rejection is located at the token's 1-based column, which only then is
    found by scanning the tokens in order (so a token repeated on its line
    gets its own column)."""
    try:
        return parse_token(token, line)
    except ManifestError as err:
        col = [m.start() for m in re.finditer(r"\S+", raw)][index] + 1
        raise ManifestError(err.message, line, col) from None


def parse(text: str) -> Manifest:
    version: Optional[int] = None
    matrices: Dict[str, Mat2] = {}  # token text -> value: each distinct token parses once
    images: Dict[str, Pi1Element] = {}
    blocks: List[BlockDecl] = []
    labels = set()  # of blocks, for the duplicate check in linear time
    glues: List[GlueDecl] = []
    current_block: Optional[BlockDecl] = None
    current_glue: Optional[GlueDecl] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        inside = current_block is not None or current_glue is not None
        if head == "version":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ManifestError("expected: version <integer>", lineno)
            try:  # isdigit() admits digits such as superscript two that int() rejects
                version = int(tokens[1])
            except ValueError:
                raise ManifestError("expected: version <integer>", lineno) from None
        elif head == "block":
            if inside:
                raise ManifestError("nested section; missing 'end'?", lineno)
            if len(tokens) != 2:
                raise ManifestError("expected: block <label>", lineno)
            if tokens[1] in labels:
                raise ManifestError(f"duplicate block label {tokens[1]!r}", lineno)
            labels.add(tokens[1])
            current_block = BlockDecl(label=tokens[1], line=lineno)
        elif head == "glue":
            if inside:
                raise ManifestError("nested section; missing 'end'?", lineno)
            if len(tokens) != 3:
                raise ManifestError("expected: glue <b1>.<bd1> <b2>.<bd2>", lineno)
            current_glue = GlueDecl(
                _end_ref(tokens[1], lineno), _end_ref(tokens[2], lineno), line=lineno
            )
        elif head == "end":
            if current_block is not None:
                if current_block.orientable is None:
                    raise ManifestError(
                        f"block {current_block.label}: missing 'base' line", lineno
                    )
                blocks.append(current_block)
                current_block = None
            elif current_glue is not None:
                glues.append(current_glue)
                current_glue = None
            else:
                raise ManifestError("'end' outside any section", lineno)
        elif head == "base":
            if current_block is None:
                raise ManifestError("'base' outside a block section", lineno)
            if (
                len(tokens) != 6
                or tokens[1] not in ("orientable", "nonorientable")
                or tokens[2] != "genus"
                or tokens[4] != "boundaries"
            ):
                raise ManifestError(
                    "expected: base orientable|nonorientable genus <g> boundaries <b>",
                    lineno,
                )
            current_block.base_line = lineno
            try:
                current_block.orientable = tokens[1] == "orientable"
                current_block.genus = int(tokens[3])
                current_block.boundaries = int(tokens[5])
            except ValueError:
                raise ManifestError("genus and boundaries must be integers", lineno)
        elif head == "labels":
            if current_block is None:
                raise ManifestError("'labels' outside a block section", lineno)
            if len(tokens) < 2:
                raise ManifestError("expected: labels <l1> <l2> ...", lineno)
            current_block.labels = tuple(tokens[1:])
        elif head == "gen":
            if current_block is None:
                raise ManifestError("'gen' outside a block section", lineno)
            if len(tokens) != 3:
                raise ManifestError("expected: gen <name> [[a,b],[c,d]]", lineno)
            if tokens[1] in current_block.gens:
                raise ManifestError(f"duplicate generator {tokens[1]!r}", lineno)
            mat = matrices.get(tokens[2])
            if mat is None:
                mat = matrices[tokens[2]] = _parse_token(parse_matrix, tokens[2], raw, 2, lineno)
            current_block.gens[tokens[1]] = mat
            current_block.gen_lines[tokens[1]] = lineno
        elif head in ("x", "y", "t"):
            if current_glue is None:
                raise ManifestError(f"{head!r} image outside a glue section", lineno)
            if len(tokens) != 2:
                raise ManifestError(f"expected: {head} (a,b,k)", lineno)
            if head in current_glue.images:
                raise ManifestError(f"duplicate image of {head!r}", lineno)
            img = images.get(tokens[1])
            if img is None:
                img = images[tokens[1]] = _parse_token(parse_triple, tokens[1], raw, 1, lineno)
            current_glue.images[head] = img
        else:
            raise ManifestError(f"unknown directive {head!r}", lineno)
    if current_block is not None or current_glue is not None:
        raise ManifestError("unterminated section at end of file", len(text.splitlines()))
    if version is None:
        raise ManifestError("missing 'version' line", 1)
    if version != 1:
        raise ManifestError(f"unsupported manifest version {version}", 1)
    return Manifest(version, blocks, glues)


def load_structure(text: str) -> GraphStructure:
    return parse(text).to_structure()


def dump_structure(gs: GraphStructure) -> str:
    """Canonical .gm text: blocks by label, glues by (end1, end2), labels
    only where they differ from 1..b."""
    lines = ["version 1"]
    for lbl, block in sorted(gs.blocks, key=lambda item: item[0]):
        surface = block.surface
        kind = "orientable" if surface.orientable else "nonorientable"
        lines.append(f"block {lbl}")
        lines.append(f"  base {kind} genus {surface.genus} boundaries {surface.boundary_count}")
        labels = tuple(block.boundary_labels())
        if labels != tuple(str(i) for i in range(1, surface.boundary_count + 1)):
            lines.append("  labels " + " ".join(labels))
        for i, m in enumerate(block.images):
            lines.append(f"  gen {surface.generator_name(i)} {m}")
        lines.append("end")
    for edge in sorted(gs.edges, key=lambda e: (e.end1, e.end2)):
        (b1, bd1), (b2, bd2) = edge.end1, edge.end2
        lines.append(f"glue {b1}.{bd1} {b2}.{bd2}")
        for gen, img in zip("xyt", (edge.iso.x_img, edge.iso.y_img, edge.iso.t_img)):
            lines.append(f"  {gen} {img}")
        lines.append("end")
    return "\n".join(lines) + "\n"
