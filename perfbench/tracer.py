"""Outside-in per-layer trace of the subsetspace package.

Wrappers are installed from here around the package's public functions, so
the program itself is unchanged.  Two passes keep their costs apart: the span
pass records a span (name, start, end, parent) per call of the functions in
SPANS, and the count pass only counts calls, which also covers functions too
hot to time per call (``apply_face``, ``compose_degeneracy``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "subsetspace"
CHECKS = ("theorem1", "tuffley", "lemma1", "invariance", "oracle")
SNF_DEGREES = range(1, 10)

# (module, attribute) of each function timed in the span pass.  A span is
# named "<module>.<function>", except cli.cmd_verify, named "verify.<check>".
SPANS = [
    ("cli", "main"), ("cli", "cmd_verify"),
    ("spaces", "parse_space"),
    ("simplicial", "enumerate_level"), ("simplicial", "load_simplicial_set"),
    ("expk", "build_expk"), ("expk", "degeneracy_set"),
    ("expk", "strip_degeneracies"), ("expk", "colimit_level_oracle"),
    ("homology", "space_homology"), ("homology", "normalized_chains"),
    ("homology", "restricted_chains"), ("homology", "homology"),
    ("homology", "ChainComplex.check_dd_zero"),
    ("homology", "smith_normal_form"),
    ("verify", "theorem1_check"), ("verify", "tuffley_check"),
    ("verify", "lemma1_check"), ("verify", "invariance_check"),
]
# (module, attribute) of each function whose calls the count pass counts
COUNTS = [("cli", "main"), ("simplicial", "apply_face"),
          ("simplicial", "compose_degeneracy"), ("expk", "degeneracy_set"),
          ("expk", "strip_degeneracies"), ("homology", "smith_normal_form")]

PER_LAYER = (
    [("cli.self_s", "s"), ("cli.calls", "count"),
     ("spaces.parse_space.s", "s"),
     ("simplicial.enumerate_level.s", "s"),
     ("simplicial.load_simplicial_set.s", "s"),
     ("simplicial.apply_face.calls", "count"),
     ("simplicial.compose_degeneracy.calls", "count"),
     ("expk.build_expk.s", "s"), ("expk.build_expk.self_s", "s"),
     ("expk.degeneracy_set.s", "s"), ("expk.degeneracy_set.calls", "count"),
     ("expk.strip_degeneracies.self_s", "s"),
     ("expk.strip_degeneracies.calls", "count"),
     ("expk.cells_enumerated", "count"), ("expk.generators", "count"),
     ("expk.kept_ratio", "ratio"),
     ("homology.normalized_chains.s", "s"),
     ("homology.restricted_chains.s", "s"),
     ("homology.check_dd_zero.s", "s"),
     ("homology.smith_normal_form.s", "s"),
     ("homology.smith_normal_form.calls", "count")]
    + [(f"homology.snf.d{n}.{field}", unit) for n in SNF_DEGREES
       for field, unit in (("s", "s"), ("nnz", "count"), ("rank", "count"))]
    + [("homology.snf.max_divisor", "count")]
    + [(f"verify.{check}.s", "s") for check in CHECKS]
    + [("verify.builds", "count"),
       ("trace.overhead_s", "s"), ("trace.coverage", "ratio")])


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


@contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, attribute) target by make_wrapper(name, fn) in
    every package module that binds it, for the duration of the block.

    Modules are resolved through importlib: ``subsetspace.homology`` as an
    attribute is the re-exported function, not the submodule.  Yields the
    names of targets that do not exist, which are reported, not fatal.
    """
    undo, absent = [], []
    try:
        for module, attr in targets:
            name = _span_name(module, attr)
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                absent.append(name)
                continue
            owner, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner, None) if owner else mod
            original = getattr(owner, fname, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = make_wrapper(name, original)
            if owner is not mod:  # a method: patch the class once
                undo.append((owner, fname, original))
                setattr(owner, fname, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
        yield absent
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """Spans and counts from the two passes, and the per-layer metrics."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._complexes: list = []

    # -- the span pass ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {"expk.build_expk": self._build_attrs,
                 "homology.smith_normal_form": self._snf_attrs}.get(name)
        complexes = self._complexes if name == "homology.homology" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"verify.{args[0]}" if name == "cli.cmd_verify" else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if complexes is not None:
                complexes.append(args[0])
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if complexes is not None:
                    complexes.pop()
            if after is not None:
                span[4] = after(args, result)
            return result
        return wrapper

    @staticmethod
    def _build_attrs(args, space) -> dict:
        return {"cells": space.cells_enumerated,
                "generators": space.result.n_generators}

    def _snf_attrs(self, args, snf) -> dict:
        M = args[0]
        degree = None
        if self._complexes:
            degree = next((n for n, B in enumerate(
                self._complexes[-1].boundaries) if B is M), None)
        nnz = (M.nnz() if hasattr(M, "nnz")
               else sum(1 for row in M for v in row if v))
        return {"degree": degree, "nnz": nnz, "rank": snf.rank,
                "max_divisor": max(snf.divisors, default=0)}

    @contextmanager
    def spans_installed(self):
        with patched(SPANS, self._span_wrapper) as absent:
            self.absent.update(absent)
            yield

    # -- the count pass -----------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def counts_installed(self):
        with patched(COUNTS, self._count_wrapper) as absent:
            self.absent.update(absent)
            yield

    # -- metrics ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, traced_wall: float, untraced_walls: list[float]) -> dict:
        spans, own = self.spans, self.self_times()
        total, self_s = defaultdict(float), defaultdict(float)
        for s, t in zip(spans, own):
            total[s[0]] += s[2] - s[1]
            self_s[s[0]] += t
        m = {"cli.self_s": self_s["cli.main"],
             "cli.calls": self.counts["cli.main"],
             "simplicial.apply_face.calls": self.counts["simplicial.apply_face"],
             "simplicial.compose_degeneracy.calls":
                 self.counts["simplicial.compose_degeneracy"],
             "expk.build_expk.self_s": self_s["expk.build_expk"],
             "expk.degeneracy_set.calls": self.counts["expk.degeneracy_set"],
             "expk.strip_degeneracies.self_s":
                 self_s["expk.strip_degeneracies"],
             "expk.strip_degeneracies.calls":
                 self.counts["expk.strip_degeneracies"],
             "homology.smith_normal_form.calls":
                 self.counts["homology.smith_normal_form"]}
        for name in ("spaces.parse_space", "simplicial.enumerate_level",
                     "simplicial.load_simplicial_set", "expk.build_expk",
                     "expk.degeneracy_set", "homology.normalized_chains",
                     "homology.restricted_chains", "homology.check_dd_zero",
                     "homology.smith_normal_form"):
            m[f"{name}.s"] = total[name]

        builds = [s[4] for s in spans if s[0] == "expk.build_expk" and s[4]]
        m["expk.cells_enumerated"] = sum(b["cells"] for b in builds)
        m["expk.generators"] = sum(b["generators"] for b in builds)
        m["expk.kept_ratio"] = (m["expk.generators"] / m["expk.cells_enumerated"]
                                if m["expk.cells_enumerated"] else 0.0)

        for n in SNF_DEGREES:
            for field in ("s", "nnz", "rank"):
                m[f"homology.snf.d{n}.{field}"] = 0
        m["homology.snf.max_divisor"] = 0
        for s in spans:
            if s[0] != "homology.smith_normal_form" or not s[4]:
                continue
            a = s[4]
            m["homology.snf.max_divisor"] = max(m["homology.snf.max_divisor"],
                                                a["max_divisor"])
            if a["degree"] in SNF_DEGREES:
                prefix = f"homology.snf.d{a['degree']}"
                m[f"{prefix}.s"] += s[2] - s[1]
                m[f"{prefix}.nnz"] += a["nnz"]
                m[f"{prefix}.rank"] += a["rank"]

        verify_names = {f"verify.{c}" for c in CHECKS}
        for check in CHECKS:
            m[f"verify.{check}.s"] = total[f"verify.{check}"]
        verify_calls = sum(1 for s in spans if s[0] in verify_names)
        m["verify.builds"] = (sum(1 for s in spans if s[0] == "expk.build_expk"
                                  and self._under(s, verify_names))
                              / verify_calls if verify_calls else 0.0)

        m["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
        below_root = sum(s[2] - s[1] - t for s, t in zip(spans, own)
                         if s[3] == -1)
        m["trace.coverage"] = below_root / traced_wall if traced_wall else 0.0
        return m

    def _under(self, span, names: set[str]) -> bool:
        while span[3] >= 0:
            span = self.spans[span[3]]
            if span[0] in names:
                return True
        return False

    def dump(self, t0: float) -> list:
        """Spans with times relative to t0, for the trace file."""
        return [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans]
