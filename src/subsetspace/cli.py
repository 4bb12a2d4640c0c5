"""Command-line front end: build spaces, run computations, emit reports.

Exit codes: 0 success/pass, 1 verification failure, 2 parse error,
3 resource cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .simplicial import SimplicialError, load_simplicial_set
from .spaces import edgewise_subdivision, parse_space
from .expk import DEFAULT_MAX_CELLS, ResourceCapError
from .homology import expk_homology

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        print("degree,f,betti,torsion")
        rows = zip(payload["f_vector"] or [], payload["betti"] or [],
                   payload["torsion"] or [])
        for n, (f, b, tors) in enumerate(rows):
            print(f"{n},{f},{b},{';'.join(str(d) for d in tors)}")
        if payload["verdict"] is not None:
            print(f"verdict,,{payload['verdict']},")
    else:
        print(f"space: {payload['space']}  k: {payload['k']}")
        if payload["f_vector"] is not None:
            print(f"f-vector: {payload['f_vector']}")
            print(f"betti:    {payload['betti']}")
            print(f"torsion:  {payload['torsion']}")
            print(f"euler:    {payload['euler']}")
        if payload["verdict"] is not None:
            print(f"verdict:  {payload['verdict']}")
        print(f"elapsed:  {payload['elapsed_ms']} ms  "
              f"cells: {payload['cells_enumerated']}")


def cmd_verify(which: str, args: argparse.Namespace, S):
    """The record of check `which` on S: its verdict, homology (or None)
    and cells_enumerated."""
    from . import verify as V  # here, so that homology calls skip its import
    if which in ("theorem1", "tuffley"):
        check = V.theorem1_check if which == "theorem1" else V.tuffley_check
        return check(S, args.k, max_cells=args.max_cells)
    if which == "oracle":
        return V.level_count_check(S, args.k, args.level,
                                   max_cells=args.max_cells)
    if which == "invariance":
        # esd S is made before either exp_k build, so its cap test runs first
        return V.invariance_check(S, edgewise_subdivision(S, args.max_cells),
                                  args.k, max_cells=args.max_cells)
    import random  # lemma1; argparse admits only the five checks
    rng = random.Random(args.seed or 0)
    failed = any(V.lemma1_check(S, *V.random_lemma1_instance(S, rng))
                 == V.FAIL for _ in range(50))
    return V.Outcome(V.FAIL if failed else V.PASS, None, 0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", default=None, help="space descriptor, e.g. "
                   "s1, s2, wedge:1,1, circle:4")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-cells", type=int, default=DEFAULT_MAX_CELLS)
    p.add_argument("--format", choices=["json", "csv", "text"],
                   default="json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--file", default=None,
                   help="path to a custom simplicial set (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetspace",
        description="Finite subset spaces of simplicial sets: homology and "
                    "connectivity verification")
    sub = parser.add_subparsers(dest="command", required=True)
    ph = sub.add_parser("homology", help="homology of exp_k of a space")
    _add_common(ph)
    ph.add_argument("--reduced", action="store_true")
    pv = sub.add_parser("verify", help="run a verification check")
    pv.add_argument("which", choices=["theorem1", "tuffley", "lemma1",
                                      "invariance", "oracle"])
    _add_common(pv)
    pv.add_argument("--level", type=int, default=None,
                    help="level for the oracle's count (default: every "
                    "level)")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    if args.space is None and args.file is None:
        raise SimplicialError("one of --space or --file is required")
    if args.space is not None and args.file is not None:
        raise SimplicialError("give --space or --file, not both")
    if args.k < 1:
        raise SimplicialError("k must be >= 1")
    if args.max_cells < 1:
        raise SimplicialError("cell cap must be >= 1")
    if getattr(args, "level", None) is not None and args.which != "oracle":
        raise SimplicialError("--level applies only to verify oracle")


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # a call makes no cycles beyond its argument parser's
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        if args.file is None:  # parse_space refuses an over-cap descriptor
            name, S = parse_space(args.space, args.max_cells)
        else:
            name = os.path.basename(args.file)
            S = load_simplicial_set(args.file)
        t0 = time.monotonic()
        if args.command == "homology":
            h, cells = expk_homology(S, args.k, args.reduced, args.max_cells)
            verdict = None
        else:
            res = cmd_verify(args.which, args, S)
            verdict, h, cells = res.verdict, res.homology, res.cells_enumerated
        elapsed = int((time.monotonic() - t0) * 1000)
        _emit({"space": name, "k": args.k,
               "f_vector": h.f_vector if h else None,
               "betti": h.betti if h else None,
               "torsion": h.torsion if h else None,
               "euler": h.euler if h else None,
               "reduced": h.reduced if h else False,
               "verdict": verdict,
               "elapsed_ms": 0 if args.seed is not None else elapsed,
               "cells_enumerated": cells}, args.format)
        return EXIT_OK if verdict in (None, "pass") else EXIT_FAIL
    except ResourceCapError as exc:
        print(json.dumps({"error": "resource-cap", **exc.report}),
              file=sys.stderr)
        return EXIT_CAP
    except (MemoryError, OverflowError):  # a summand too large to build
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except (SimplicialError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """The process entry: main(), start-up's heap frozen out of exit's GC."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
