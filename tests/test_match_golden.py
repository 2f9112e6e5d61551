"""Golden compare answers on generated inputs: replay every `match` item of
`bench/gen.py` for seeds 1-3 (`match_items(seed, 1)`) in process, and
require the verdict, the witness and the separating field to be identical
to the record.  The record dates from when block conjugators were sought in
a coefficient box of size 4; the exact conjugators give the same answers.

The record was written, from the repository root, by

    PYTHONPATH=src python tests/test_match_golden.py

Rewrite it only when a change of answer is intended, and say so.
"""
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from gm4 import isomorphic_reduced, load_structure

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "match_golden.json"
SEEDS = (1, 2, 3)


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


def _items():
    gen = _bench_gen()
    return [(seed, it) for seed in SEEDS for it in gen.match_items(seed, 1)]


def _answer(seed, item):
    result = isomorphic_reduced(load_structure(item.text1), load_structure(item.text2))
    return {
        "seed": seed,
        "id": item.id,
        "verdict": result.verdict,
        "witness": result.witness,
        "separating": result.separating,
    }


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_item():
    assert [(r["seed"], r["id"]) for r in _load()] == [(seed, it.id) for seed, it in _items()]


def test_answers_are_identical():
    records = {(r["seed"], r["id"]): r for r in _load()}
    for seed, item in _items():
        assert _answer(seed, item) == records[(seed, item.id)], (seed, item.id, item.family, item.partner)


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [_answer(seed, it) for seed, it in _items()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
