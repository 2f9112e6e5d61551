#!/usr/bin/env python3
"""gm4 benchmark: words, ring and match workloads.

    python3 bench/run.py --workload words|ring|match --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --record [--seed N]

Each workload runs in its own single-threaded process as a closed loop with
one client: the next item starts when the previous one has finished.  An
item is one library call (words) or one in-process ``gm4.cli.main`` call
with stdout and stderr captured (ring, match); before each CLI item every
functools cache in gm4 is cleared, so an item costs what one ``gm4``
invocation costs minus interpreter start.  Inputs come from bench/gen.py,
which does not import gm4, and are written under .bench_work/ before gm4 is
imported.  Every output is checked against the answer its construction
implies (see gen.py), against recorded report digests and against the
known-defect ledger in bench/reference.json.

--trace 0 runs whole blocks of items for at least S seconds and prints the
end-to-end metrics.  Times are scaled to a reference machine speed by a
probe kernel, independent of gm4, that runs after every item and in every
set-up process; set-up time is the median over fresh processes.  --trace 1 runs a fixed prefix of items
plain, traced (every function in tracing.TARGETS wrapped) and plain again,
and prints the per-layer metrics.  --record rewrites bench/reference.json.
The last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402  (stdlib only; gm4 is imported after the inputs exist)
import tracing  # noqa: E402

WORKLOADS = ("words", "ring", "match")
# blocks of items generated per run; a timed phase that exhausts them starts
# over from the first item with every cache cleared
POOL_BLOCKS = {"words": 12, "ring": 6, "match": 6}
# blocks of items run by --trace 1 (fixed, so that counts repeat exactly)
TRACE_BLOCKS = {"words": 2, "ring": 1, "match": 2}
# per-item deadline; match is set well between the slowest item that
# finishes (< 0.9 s) and the searches that run for minutes
DEADLINE_S = {"words": 20.0, "ring": 20.0, "match": 2.0}
MIN_ITEMS = 100  # so that at least ten samples lie above the 90th percentile
HARD_STOP = 3.0  # a timed phase ends after HARD_STOP * --seconds regardless
SETUP_REPEATS = 7
CLASSIFY_LONG_LETTERS = 256  # growth bucket: canonical word length
SNF_LARGE_ENTRIES = 4096  # growth bucket: rows x cols
SYMPY_CHECKS = 40
# times are scaled to a machine on which the probe kernel takes this long;
# the probe runs after every timed item, and SETUP_PROBES times in each
# set-up process once it is ready
PROBE_REFERENCE_S = 1.5e-3
PROBE_WINDOW = 41  # items whose probes scale one item's time
SETUP_PROBES = 15


class Deadline(BaseException):
    """Raised by SIGALRM when an item runs past its deadline."""


class Rec:
    __slots__ = ("index", "elapsed", "status", "payload", "busy", "speed")

    def __init__(self, index: int, elapsed: float, status: str, payload):
        self.index, self.elapsed, self.status, self.payload = index, elapsed, status, payload
        self.busy = self.speed = 0.0  # loop time with cache clearing; probe time after the item


# ---------------------------------------------------------------------------
# workloads: write inputs, prepare calls, check outputs
# ---------------------------------------------------------------------------


def run_cli(argv: List[str]):
    import gm4.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gm4.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Words:
    name = "words"
    cli = False
    generate = staticmethod(gen.word_items)

    def write(self, items, work: Path) -> None:
        (work / "words.txt").write_text("".join(it.line() + "\n" for it in items), encoding="utf-8")

    def prepare(self, items, work: Path) -> List[Callable]:
        import gm4

        calls = []
        for line in (work / "words.txt").read_text(encoding="utf-8").splitlines():
            _, op, *nums = line.split()
            mats = [gm4.Mat2(*map(int, nums[i : i + 4])) for i in range(0, len(nums), 4)]
            if op == "classify":
                calls.append(lambda m=mats[0]: str(gm4.classify(m)))
            elif op == "psi":
                calls.append(lambda m=mats[0]: gm4.psi(m))
            else:
                amb = gm4.SL2Z if op == "conj_sl" else gm4.GL2Z
                calls.append(lambda m=mats[0], n=mats[1], a=amb: _conj(gm4.conjugate_in(m, n, a)))
        return calls

    def check(self, item, rec: Rec, ref) -> Tuple[str, str]:
        got, want = rec.payload, gen.word_expected(item)
        if item.op.startswith("conj"):
            ok, witness = got
            if ok != want:
                return "wrong", f"conjugate_in said {ok}, expected {want}"
            if ok:
                c = witness
                det = c[0] * c[3] - c[1] * c[2]
                if det not in ((1,) if item.op == "conj_sl" else (1, -1)):
                    return "wrong", f"witness {c} has determinant {det}"
                if gen.mul(gen.mul(c, item.m1.mat), gen.inv(c)) != item.m2.mat:
                    return "wrong", "witness does not conjugate m1 to m2"
            return "ok", ""
        if got != want:
            return "wrong", f"got {str(got)[:80]}, expected {str(want)[:80]}"
        return "ok", ""

    def decided(self, item, rec: Rec) -> bool:
        return rec.status == "done"

    def describe(self, item) -> str:
        return f"{item.op} on a {item.kind} {len(item.m1.word)}-letter word"


def _conj(result):
    ok, witness = result
    return ok, (witness.entries() if witness is not None else None)


class Ring:
    name = "ring"
    cli = True
    generate = staticmethod(gen.ring_items)

    def write(self, items, work: Path) -> None:
        for it in items:
            (work / f"{it.id}.gm").write_text(it.text, encoding="utf-8")

    def prepare(self, items, work: Path) -> List[Callable]:
        return [lambda argv=[it.command, str(work / f"{it.id}.gm")]: run_cli(argv) for it in items]

    def check(self, item, rec: Rec, ref) -> Tuple[str, str]:
        rc, out, err = rec.payload
        if item.kind != "valid":
            if rc == 12 and not out and err and "Traceback" not in err:
                return "ok", ""
            return "wrong", f"invalid manifest ({item.kind}): exit {rc}"
        if rc != 0 or err:
            return "wrong", f"exit {rc}, stderr {err[:80]!r}"
        fp = sum(item.preserving)
        if item.command == "validate":
            return ("ok", "") if out == "valid\n" else ("wrong", f"stdout {out[:40]!r}")
        if item.command == "reduce":
            lines = out.splitlines()
            nblocks = sum(ln.startswith("block ") for ln in lines)
            nglue = sum(ln.startswith("glue ") for ln in lines)
            if (nblocks, nglue) != (item.n - fp, item.n + item.n // 2 - fp):
                return "wrong", f"reduce gave {nblocks} blocks, {nglue} glueings"
            ks = [ln.split()[1] for ln in lines if ln.startswith(("  x ", "  y "))]
            if any(x.endswith(",0)") and y.endswith(",0)") for x, y in zip(ks[::2], ks[1::2])):
                return "wrong", "reduce left a fiber-preserving glueing"
            return "ok", ""
        lines = out.splitlines()
        if lines[:-1] != gen.ring_report_lines(item) or not lines[-1].startswith("h1: Z^"):
            return "wrong", "invariant report differs from the construction"
        digest = (ref or {}).get(item.id)
        if digest and hashlib.sha256(out.encode()).hexdigest() != digest:
            return "wrong", "invariant report differs from the recorded digest"
        return "ok", ""

    def decided(self, item, rec: Rec) -> bool:
        return rec.status == "done"

    def describe(self, item) -> str:
        return f"{item.command} on a {item.n}-block ring ({item.kind})"


class Match:
    name = "match"
    cli = True
    generate = staticmethod(gen.match_items)

    def write(self, items, work: Path) -> None:
        for it in items:
            (work / f"{it.id}a.gm").write_text(it.text1, encoding="utf-8")
            (work / f"{it.id}b.gm").write_text(it.text2, encoding="utf-8")

    def prepare(self, items, work: Path) -> List[Callable]:
        return [
            lambda argv=["compare", str(work / f"{it.id}a.gm"), str(work / f"{it.id}b.gm")]: run_cli(argv)
            for it in items
        ]

    def check(self, item, rec: Rec, ref) -> Tuple[str, str]:
        rc, out, err = rec.payload
        if rc == 11 and item.expect == "yes" and out == "Inconclusive\n":
            return "undecided", "inconclusive on an isomorphic pair"
        if item.expect == "no":
            if rc == 10 and out == "No (separated by block_summary)\n":
                return "ok", ""
            return "wrong", f"expected No, exit {rc}: {out.strip()[:60]}"
        if rc == 0 and out.startswith("Yes (block matching ") and out.endswith(")\n"):
            pairs = [p.split("->") for p in out[len("Yes (block matching ") : -2].split(", ")]
            labels1 = sorted(ln.split()[1] for ln in item.text1.splitlines() if ln.startswith("block "))
            labels2 = sorted(ln.split()[1] for ln in item.text2.splitlines() if ln.startswith("block "))
            if sorted(p[0] for p in pairs) == labels1 and sorted(p[1] for p in pairs) == labels2:
                return "ok", ""
        return "wrong", f"expected Yes, exit {rc}: {out.strip()[:60]}"

    def decided(self, item, rec: Rec) -> bool:
        return rec.status == "done" and rec.payload[0] in (0, 10)

    def describe(self, item) -> str:
        return f"compare {item.family} ({item.blocks} blocks) with its {item.partner} partner"


WL = {"words": Words(), "ring": Ring(), "match": Match()}


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------


def hash_dir(work: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(work.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class Setup:
    """Generate and write the inputs, then import gm4 and prepare the calls."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.wl = WL[workload]
        self.items = self.wl.generate(seed, POOL_BLOCKS[workload])
        work.mkdir(parents=True, exist_ok=True)
        self.wl.write(self.items, work)
        self.input_sha256 = hash_dir(work)
        if "gm4" in sys.modules:
            raise RuntimeError("the input generator imported gm4")
        other = self.wl.generate(seed + 1, 1)
        self.per_block = len(other)
        self.seed_sensitive = [repr(i) for i in other] != [repr(i) for i in self.items[: len(other)]]
        sys.path.insert(0, str(ROOT / "src"))
        import gm4
        import gm4.cli  # noqa: F401  (every module present before tracing)

        if Path(gm4.__file__).resolve().parent != (ROOT / "src" / "gm4").resolve():
            raise RuntimeError(f"imported gm4 from {gm4.__file__}, not from this checkout")
        self.calls = self.wl.prepare(self.items, work)
        self.caches = []
        for mod in tracing.gm4_modules():
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)) and all(val is not c for c in self.caches):
                    self.caches.append(val)

    def clear_caches(self) -> None:
        for c in self.caches:
            c.cache_clear()


def _probe_kernel() -> int:
    """Fixed pure-Python work independent of gm4: 2x2 products of growing
    integers, tuple unpacking and dict updates."""
    counts: Dict[int, int] = {}
    m = (1, 0, 0, 1)
    for i in range(6000):
        a, b, c, d = m
        m = (a, a + b, c, c + d) if (i * 7) % 3 else (a + b, b, c + d, d)
        if i % 200 == 199:
            counts[m[0] % 97] = counts.get(m[0] % 97, 0) + 1
            m = (1, 0, 0, 1)
    return len(counts)


def probe() -> float:
    """One sample of the machine's current speed: time of the probe kernel."""
    t0 = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - t0


def run_items(setup: Setup, order: List[int], deadline: float, seconds: Optional[float] = None,
              tracer: Optional[tracing.Tracer] = None) -> Tuple[List[Rec], float]:
    """Closed loop over `order`: once, or cycled for `seconds` and then to
    the end of the current block.  With `seconds`, a speed probe runs after
    every item, outside its timing."""

    def on_alarm(signum, frame):
        if tracer is not None and tracer.book:
            signal.setitimer(signal.ITIMER_REAL, 0.001)  # leave span bookkeeping intact
            return
        raise Deadline()

    old = signal.signal(signal.SIGALRM, on_alarm)
    recs: List[Rec] = []
    start = time.perf_counter()
    try:
        i = 0
        while True:
            if seconds is None:
                if i == len(order):
                    break
            else:
                elapsed = time.perf_counter() - start
                if elapsed >= HARD_STOP * seconds:
                    break
                if i % setup.per_block == 0 and elapsed >= seconds and i >= MIN_ITEMS:
                    break
                if i and i % len(order) == 0:
                    setup.clear_caches()  # a new cycle replays the items as fresh ones
            t_item = time.perf_counter()
            k = order[i % len(order)]
            if setup.wl.cli:
                setup.clear_caches()
            call = setup.calls[k]
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                if tracer is None:
                    payload = call()
                else:
                    with tracer.span("bench.item", i):
                        payload = call()
                status = "done"
            except Deadline:
                status, payload = "deadline", None
            except Exception as exc:  # a traceback a gm4 process would print
                status, payload = "exception", f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            now = time.perf_counter()
            rec = Rec(k, now - t0, status, payload)
            if seconds is not None:
                rec.busy, rec.speed = now - t_item, probe()
            recs.append(rec)
            i += 1
        wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, old)
    return recs, wall


def judge(setup: Setup, recs: List[Rec], ref: dict, known: Dict[str, str]) -> List[Tuple[str, str]]:
    """Per record (outcome, reason); outcome is ok, undecided, failed or wrong.

    failed: a missed deadline, or an uncaught exception on an item whose kind
    the known-defect ledger names.  wrong: any other departure from the
    expected answer, which makes the run incorrect."""
    out = []
    digests = ref.get("report_digests", {})
    for rec in recs:
        item = setup.items[rec.index]
        if rec.status == "deadline":
            out.append(("failed", "missed the deadline"))
        elif rec.status == "exception":
            kind = f"{setup.wl.name}/{getattr(item, 'kind', '')}"
            out.append(("failed" if kind in known else "wrong", f"uncaught {rec.payload[:80]}"))
        else:
            out.append(setup.wl.check(item, rec, digests))
    return out


def load_reference(seed: int) -> Tuple[dict, Dict[str, str]]:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    known = ref.get("known_defects", {})
    return (ref if ref.get("reference_seed") == seed else {}), known


def ledger_notes(workload: str, setup: Setup, recs, verdicts, ref: dict) -> List[str]:
    """Compare the items that did not pass with the ledger recorded at the
    reference seed, over the prefix of items the ledger covers."""
    ledger = ref.get("ledger", {}).get(workload)
    if ledger is None:
        return []
    covered = ref["ledger_prefix"][workload]
    seen = {setup.items[r.index].id: v for r, v in zip(recs, verdicts) if r.index < covered}
    new = sorted(i for i, v in seen.items() if v[0] != "ok" and i not in ledger)
    fixed = sorted(i for i in seen if i in ledger and seen[i][0] == "ok")
    return [f"ledger: {sum(i in ledger for i in seen)} listed items ran; not listed but failing {new}; "
            f"listed but now passing {fixed}"]


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int, input_sha256: str) -> float:
    """Median time from process start to the first item could run, over
    fresh processes, each scaled to the reference speed by the probe that
    process runs once it is ready.  Each process must have written the same
    inputs as this one."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
        )
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or len(line) != 4 or line[0] != "ready":
            raise RuntimeError("set-up process failed")
        if line[3] != input_sha256:
            raise RuntimeError(f"a second process wrote other inputs for seed {seed}")
        speed, probing = float(line[1]), float(line[2])
        times.append((elapsed - probing) * PROBE_REFERENCE_S / speed)
    return statistics.median(times)


def untraced(workload: str, seed: int, seconds: float, setup: Setup) -> dict:
    ref, known = load_reference(seed)
    order = list(range(len(setup.items)))
    recs, wall = run_items(setup, order, DEADLINE_S[workload], seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    hygiene = tracing.wrapped_bindings()
    verdicts = judge(setup, recs, ref, known)
    notes = ledger_notes(workload, setup, recs, verdicts, ref)
    setup_s = measure_setup(workload, seed, setup.input_sha256)
    failed = sum(v[0] in ("failed", "wrong") for v in verdicts)
    decided = sum(v[0] != "wrong" and setup.wl.decided(setup.items[r.index], r) for r, v in zip(recs, verdicts))
    # Each item's time is scaled to the reference speed by the median of the
    # probes run after the PROBE_WINDOW items around it: the machine's speed
    # drifts by tens of percent within seconds, and the probe, which does
    # not depend on gm4, follows it.  A missed deadline is wall-clock time
    # and stays unscaled.  Only whole blocks count, so that every run has
    # the same mix of items.
    kept = recs[: len(recs) - len(recs) % setup.per_block] or recs
    half = PROBE_WINDOW // 2
    scaled_ms, busy_s = [], 0.0
    for j, r in enumerate(kept):
        window = [w.speed for w in kept[max(0, j - half) : j + half + 1]]
        scale = 1.0 if r.status == "deadline" else PROBE_REFERENCE_S / statistics.median(window)
        scaled_ms.append(r.elapsed * 1000 * scale)
        busy_s += r.busy * scale
    completed = sum(r.status != "deadline" for r in kept)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (completed / busy_s, "1/s"),
        "item_ms_p50": (statistics.median(scaled_ms), "ms"),
        "item_ms_p90": (percentile(scaled_ms, 90), "ms"),
        "ok_ratio": (1 - failed / len(recs), "ratio"),
        "decided_ratio": (decided / len(recs), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    problems = problems_of(setup, seed, ref, recs, verdicts)
    if hygiene:
        problems.append(f"untraced run found tracer wrappers at {hygiene}")
    raw = [r.elapsed * 1000 for r in kept]
    notes.append(f"{len(recs)} items, {len(kept)} in whole blocks, {wall:.2f} s, {len(setup.items)} generated; "
                 f"{sum(v[0] == 'undecided' for v in verdicts)} undecided")
    notes.append(f"unscaled: {len(kept) / sum(r.busy for r in kept):.4g} items/s, p50 {statistics.median(raw):.4g} ms, "
                 f"p90 {percentile(raw, 90):.4g} ms; probe median {statistics.median(r.speed for r in kept) * 1e3:.4g} ms")
    return result(recs, failed, metrics, problems, notes)


def problems_of(setup: Setup, seed: int, ref: dict, recs, verdicts) -> List[str]:
    problems = [f"{setup.items[r.index].id}: {v[1]}" for r, v in zip(recs, verdicts) if v[0] == "wrong"]
    want = ref.get("input_sha256", {}).get(setup.wl.name)
    if want and want != setup.input_sha256:
        problems.append(f"inputs at seed {seed} differ from the recorded hash")
    if not setup.seed_sensitive:
        problems.append(f"seeds {seed} and {seed + 1} gave the same inputs")
    return problems


def result(recs, failed: int, metrics: dict, problems: List[str], notes: List[str]) -> dict:
    return {
        "correct": not problems,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems[:20],
        "notes": notes,
    }


def traced(workload: str, seed: int, setup: Setup) -> dict:
    ref, known = load_reference(seed)
    order = list(range(TRACE_BLOCKS[workload] * setup.per_block))
    deadline = DEADLINE_S[workload]
    # plain, traced, plain: the overhead is taken against the mean of the
    # two plain passes, so that warm-up does not count as tracing cost, and
    # over the items that met the deadline in all three
    setup.clear_caches()
    plain, _ = run_items(setup, order, deadline)
    tracer = tracing.Tracer()
    setup.clear_caches()
    tracer.install()
    try:
        recs, _ = run_items(setup, order, deadline, tracer=tracer)
    finally:
        tracer.uninstall()
    setup.clear_caches()
    plain2, _ = run_items(setup, order, deadline)
    both = [i for i in range(len(order)) if "deadline" not in (plain[i].status, plain2[i].status, recs[i].status)]
    traced_s = sum(recs[i].elapsed for i in both)
    plain_s = sum(plain[i].elapsed + plain2[i].elapsed for i in both) / 2
    plain += plain2
    problems = []
    if not tracer.restored():
        problems.append(f"bindings still wrapped after the traced run: {tracing.wrapped_bindings()}")
    lost = tracer.sanitize()
    if lost:
        problems.append(f"{lost} spans were cut short")
    verdicts = judge(setup, recs, ref, known)
    problems += problems_of(setup, seed, ref, plain, judge(setup, plain, ref, known))
    problems += problems_of(setup, seed, ref, recs, verdicts)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-s{seed}.jsonl")
    metrics = layer_metrics(tracer, recs)
    metrics["trace_overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    checked, bad = tracing.sympy_crosscheck(tracer.snf_inputs, SYMPY_CHECKS)
    problems += [f"Smith normal form differs from sympy: {b}" for b in bad]
    notes = [f"{len(recs)} items traced, {len(tracer.spans)} spans; {checked} Smith forms checked against sympy"]
    notes += ledger_notes(workload, setup, recs, verdicts, ref)
    failed = sum(v[0] in ("failed", "wrong") for v in verdicts)
    return result(recs, failed, metrics, problems, notes)


def layer_metrics(tracer: tracing.Tracer, recs: List[Rec]) -> dict:
    """Per-layer metrics from the spans.  Counts (.calls, .entries) leave out
    items that missed the deadline, whose call counts depend on timing;
    times include every span."""
    cut = {i for i, r in enumerate(recs) if r.status == "deadline"}
    counted_items = len(recs) - len(cut)
    selfs = tracer.self_times()
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    extra: Dict[str, int] = defaultdict(int)
    counted_extra: Dict[str, int] = defaultdict(int)
    spans_n: Dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent, item, info = span
        self_s[name] += own
        total_s[name] += end - start
        spans_n[name] += 1
        extra[name] += info or 0
        if item not in cut:
            calls[name] += 1
            counted_extra[name] += info or 0
        if name == "gl2z.classify":
            self_s["gl2z.classify.long" if (info or 0) >= CLASSIFY_LONG_LETTERS else "gl2z.classify.short"] += own
        elif name == "smith.snf_with_transforms":
            self_s["smith.snf.large" if (info or 0) >= SNF_LARGE_ENTRIES else "smith.snf.small"] += own

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, Tuple[float, str]] = {}
    for layer, fname in tracing.TARGETS:
        name = f"{layer}.{fname}"
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["gl2z.classify.letters_per_s"] = (rate(extra["gl2z.classify"], self_s["gl2z.classify"]), "1/s")
    m["gl2z.classify.self_s.short"] = (self_s["gl2z.classify.short"], "s")
    m["gl2z.classify.self_s.long"] = (self_s["gl2z.classify.long"], "s")
    m["meyer.psi.cache_hit_ratio"] = (rate(extra["meyer.psi"], spans_n["meyer.psi"]), "ratio")
    m["smith.snf_with_transforms.entries"] = (counted_extra["smith.snf_with_transforms"], "count")
    m["smith.snf_with_transforms.self_s.small"] = (self_s["smith.snf.small"], "s")
    m["smith.snf_with_transforms.self_s.large"] = (self_s["smith.snf.large"], "s")
    m["assembly.validate_structure.calls_per_item"] = (
        rate(calls["assembly.validate_structure"], counted_items), "count")
    m["manifest.bytes_per_s"] = (rate(extra["manifest.load_structure"], total_s["manifest.load_structure"]), "B/s")
    m["bench.item.self_s"] = (self_s["bench.item"], "s")
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def print_result(res: dict, prefix: str = "") -> None:
    for line in res.get("problems", []):
        print(f"{prefix}PROBLEM {line}", file=sys.stderr)
    for line in res.get("notes", []):
        print(f"{prefix}{line}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{prefix}{name:44s} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for flag in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", flag],
                stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {flag} failed with exit code {proc.returncode}", file=sys.stderr)
                return 1
            print(f"== {workload} ({'traced' if flag == '1' else 'end to end'})")
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            if flag == "0":
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def record(seed: int) -> int:
    """Rewrite bench/reference.json at `seed` from the traced prefix of every
    workload: input hashes, report digests and the known-defect ledger."""
    old = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ref = {"reference_seed": seed, "known_defects": old.get("known_defects", {}),
           "input_sha256": {}, "report_digests": {}, "ledger": {}, "ledger_prefix": {}}
    for workload in WORKLOADS:
        work = WORK / f"record-{workload}-s{seed}-p{os.getpid()}"
        try:
            setup = Setup(workload, seed, work)
            order = list(range(TRACE_BLOCKS[workload] * setup.per_block))
            recs, _ = run_items(setup, order, DEADLINE_S[workload])
            verdicts = judge(setup, recs, {}, ref["known_defects"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        wrong = [f"{setup.items[r.index].id}: {v[1]}" for r, v in zip(recs, verdicts) if v[0] == "wrong"]
        if wrong:
            print("refusing to record wrong answers:\n" + "\n".join(wrong), file=sys.stderr)
            return 1
        ref["input_sha256"][workload] = setup.input_sha256
        ref["ledger_prefix"][workload] = len(order)
        ref["ledger"][workload] = {
            setup.items[r.index].id: f"{setup.wl.describe(setup.items[r.index])}: {v[0]}, {v[1]}"
            for r, v in zip(recs, verdicts)
            if v[0] != "ok"
        }
        for r in recs:
            item = setup.items[r.index]
            if workload == "ring" and item.command == "invariants" and r.status == "done":
                ref["report_digests"][item.id] = hashlib.sha256(r.payload[1].encode()).hexdigest()
        sys.modules.pop("gm4", None)
        for name in [n for n in sys.modules if n.startswith("gm4.")]:
            sys.modules.pop(name)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true", help="rewrite bench/reference.json at --seed")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gm4" / "__init__.py").is_file():
        print(f"gm4 sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, work)
        if args.setup_only:
            t0 = time.perf_counter()
            speed = statistics.median(probe() for _ in range(SETUP_PROBES))
            print(f"ready {speed} {time.perf_counter() - t0} {setup.input_sha256}", flush=True)
            return 0
        if args.trace:
            res = traced(args.workload, args.seed, setup)
        else:
            res = untraced(args.workload, args.seed, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
