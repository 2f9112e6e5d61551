"""Span tracing of gm4 from outside: wrap public functions at every binding.

The tracer replaces each listed function at every module attribute inside
the gm4 package that refers to it (``classify`` is bound in gl2z, assembly,
meyer, cli and the package itself), so calls made within gm4 are seen too.
Spans stay in memory as tuples (name, start, end, parent, item, info) and
are written out once, after the run.  ``uninstall`` restores every binding
to the original object.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs wrapped in a traced run, grouped by layer
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("gl2z", "classify"),
    ("gl2z", "conjugate_in"),
    ("meyer", "psi"),
    ("meyer", "block_signature"),
    ("smith", "snf_with_transforms"),
    ("smith", "solve_integer"),
    ("smith", "kernel_basis"),
    ("assembly", "validate_structure"),
    ("assembly", "invariant_report"),
    ("assembly", "first_homology"),
    ("assembly", "reduce_structure"),
    ("assembly", "isomorphic_reduced"),
    ("bundles", "validate_glueing"),
    ("bundles", "compose_isos"),
    ("bundles", "iso_inverse"),
    ("bundles", "intertwiner_basis"),
    ("manifest", "load_structure"),
    ("manifest", "dump_structure"),
    ("cli", "main"),
)

MARK = "__gm4bench_span__"
# matrices passed to the Smith normal form with at most this many entries
# are kept for a cross-check against sympy
SNF_KEEP_ENTRIES = 1500


def gm4_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gm4" or name.startswith("gm4.")]


def wrapped_bindings() -> List[str]:
    """Names of gm4 module attributes that currently hold a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}" for m in gm4_modules() for attr, v in vars(m).items() if hasattr(v, MARK)
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.item = -1
        self.book = False  # True while span bookkeeping runs; deadlines wait
        self.patched: List[Tuple[object, str, object]] = []
        self.snf_inputs: Dict[tuple, List[int]] = {}

    # -- span recording --------------------------------------------------

    def _open(self) -> Tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, end: float, parent: int, extra) -> None:
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.item, extra)
        self.book = False

    @contextmanager
    def span(self, name: str, item: int):
        self.book = True
        self.item = item
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            self.book = False
            yield
        finally:
            self.book = True
            self._close(idx, name, start, time.perf_counter(), parent, None)

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        tracer = self
        cached = hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            tracer.book = True
            idx, parent = tracer._open()
            before = fn.cache_info().hits if cached else 0
            result = None
            start = time.perf_counter()
            try:
                tracer.book = False
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.book = True
                end = time.perf_counter()
                if cached:
                    extra = fn.cache_info().hits - before
                else:
                    extra = info(tracer, args, result) if info is not None else None
                tracer._close(idx, name, start, end, parent, extra)

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def sanitize(self) -> int:
        """Drop spans that an interrupt left unfinished; returns how many."""
        lost = sum(s is None for s in self.spans)
        if lost:
            keep = {}
            spans = []
            for i, s in enumerate(self.spans):
                if s is not None:
                    keep[i] = len(spans)
                    spans.append(s)
            self.spans = [s[:3] + (keep.get(s[3], -1),) + s[4:] for s in spans]
        self.stack.clear()
        self.book = False
        return lost

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        mods = gm4_modules()
        for layer, fname in TARGETS:
            orig = getattr(sys.modules[f"gm4.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", orig, _INFO.get(fname))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self.patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self.patched):
            setattr(m, attr, orig)
        self.patched.clear()

    def restored(self) -> bool:
        return not wrapped_bindings()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                name, start, end, parent, item, extra = s
                fh.write(json.dumps([i, name, round(start, 9), round(end, 9), parent, item, extra]) + "\n")

    def self_times(self) -> List[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def _classify_letters(tracer: Tracer, args, result) -> int:
    return len(result.word) if result is not None and result.kind == "hyperbolic" else 0


def _snf_entries(tracer: Tracer, args, result) -> int:
    mat = args[0]
    rows = len(mat)
    entries = rows * (len(mat[0]) if rows else 0)
    if 0 < entries <= SNF_KEEP_ENTRIES and result is not None:
        tracer.snf_inputs.setdefault(tuple(tuple(r) for r in mat), list(result[2]))
    return entries


def _text_bytes(tracer: Tracer, args, result) -> int:
    return len(args[0].encode("utf-8"))


_INFO = {
    "classify": _classify_letters,
    "snf_with_transforms": _snf_entries,
    "load_structure": _text_bytes,
}


def sympy_crosscheck(snf_inputs: Dict[tuple, List[int]], limit: int) -> Tuple[int, List[str]]:
    """Compare up to `limit` recorded SNF diagonals with sympy's Smith form
    (nonzero invariant factors up to sign).  Returns (checked, mismatches)."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    checked, bad = 0, []
    for mat, diag in sorted(snf_inputs.items(), key=lambda kv: (len(kv[0]) * len(kv[0][0]), kv[0]))[:limit]:
        snf = smith_normal_form(Matrix(mat), domain=ZZ)
        theirs = sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0)
        ours = sorted(abs(d) for d in diag if d != 0)
        checked += 1
        if [int(x) for x in theirs] != ours:
            bad.append(f"{len(mat)}x{len(mat[0])}: gm4 {ours} sympy {theirs}")
    return checked, bad
