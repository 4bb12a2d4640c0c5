"""A ledger of one-edit mutants of src/, each run against tier-1.

Each mutant replaces one exact snippet of one module.  It is applied in a
fresh copy of this checkout under a temporary directory, and tier-1 runs
there with ``-x`` (stop at the first failure).  A failing run, or one
past the timeout, kills the mutant; a passing run lets it survive.

A ``killed`` mutant must be killed.  An ``equivalent: <reason>`` mutant
changes no output, only speed or memory, so no test can kill it; its
reason is printed.  The unmutated copy runs first and must pass.

Usage: python3 tests/mutants.py [SUBSTRING ...]
runs the mutants whose names contain any SUBSTRING (all without one).
Exits 1 when a ``killed`` mutant survives, and 2 when a mutant no longer
applies or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 90
SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

SIMPLICIAL = "src/subsetspace/simplicial.py"
HOMOLOGY = "src/subsetspace/homology.py"
EXPK = "src/subsetspace/expk.py"
SPACES = "src/subsetspace/spaces.py"
VERIFY = "src/subsetspace/verify.py"
CLI = "src/subsetspace/cli.py"
KILLED = "killed"
SPEED = "equivalent: speed or memory only"

# (name, file, old, new, expectation); old occurs exactly once in file
MUTANTS = [
    ("boundary-keeps-zero-sums", SIMPLICIAL,
     "                if not v:\n                    del col[r]\n", "",
     KILLED),
    ("boundary-without-sign", SIMPLICIAL,
     "            sign = -sign\n", "", KILLED),
    ("snf-without-gcd-lcm-exchange", HOMOLOGY,
     "chain[i], chain[j] = g, chain[i] // g * chain[j]",
     "chain[i], chain[j] = chain[i], chain[j]", KILLED),
    ("homology-ignores-reduced", HOMOLOGY,
     "    if reduced and f_vector and f_vector[0] > 0:", "    if False:",
     KILLED),
    ("expk-homology-without-torsion-padding", HOMOLOGY,
     "torsion=h.torsion + [[] for _ in pad]", "torsion=h.torsion", KILLED),
    ("cap-compared-with-max-cells-plus-1", EXPK,
     "if projected > max_cells:", "if projected > max_cells + 1:", KILLED),
    ("snf-ignores-skip", HOMOLOGY,
     "if col and c not in skip:", "if col:", KILLED),
    ("apply-face-without-face-table-refusal", SIMPLICIAL,
     "    if face_table is None:\n"
     "        raise SimplicialError(f\"generator {base} has no face table\")\n",
     "", KILLED),
    ("lemma1-without-union-check", VERIFY,
     "if set().union(*cover) != set(range(Y.n_generators)):", "if False:",
     KILLED),
    ("lemma1-without-closed-member-check", VERIFY,
     "if close_under_faces(Y, U) != U:", "if False:", KILLED),
    ("normalized-chains-without-closure-check", SIMPLICIAL,
     "elif close_under_faces(S, gens) != gens:", "elif False:", KILLED),
    ("build-expk-without-k-refusal", EXPK,
     "    if k < 1:\n        raise SimplicialError(\"k must be >= 1\")\n", "",
     KILLED),
    ("parse-space-without-circle-cap", SPACES,
     "            if counts[0] > max_cells:\n"
     "                raise ResourceCapError(0, counts[0], counts[0], "
     "max_cells)\n", "", KILLED),
    ("add-generator-without-dim-refusal", SIMPLICIAL,
     "        if dim < 0:\n"
     "            raise SimplicialError(\"generator dimension must be >= 0\")\n",
     "", KILLED),
    ("level-count-check-ignores-level", VERIFY,
     "levels = range(k * S.dim + 1) if level is None else [level]",
     "levels = range(k * S.dim + 1)", KILLED),
    # quotients every base: test_reduce_base.py's
    # test_the_cap_is_tested_once_unless_the_base_reduces fails on it
    ("reduce-base-without-no-expansion-return", SPACES,
     "    if all(seed_of[g] == g for g in seed_of):\n        return S\n", "",
     KILLED),
    ("parse-space-without-strip-lower", SPACES,
     "d = descriptor.strip().lower()", "d = descriptor", KILLED),
    ("reduced-guard-without-vertex-test", HOMOLOGY,
     "if reduced and f_vector and f_vector[0] > 0:", "if reduced:", KILLED),
    ("apply-face-without-vertex-refusal", SIMPLICIAL,
     "    if n < 1:\n"
     "        raise SimplicialError(\"cannot take a face of a vertex\")\n", "",
     KILLED),
    ("vanishes-through-misses-top-degree", HOMOLOGY,
     "for n in range(bound + 1))", "for n in range(bound))", KILLED),
    ("vanishes-through-ignores-torsion", HOMOLOGY,
     "self.group(n) == (0, [])", "self.group(n)[0] == 0", KILLED),
    ("theorem1-bound-plus-one", VERIFY,
     "    bound = k + m - 2\n", "    bound = k + m - 1\n", KILLED),
    ("cli-fail-verdict-exits-0", CLI,
     "return EXIT_OK if verdict in (None, \"pass\") else EXIT_FAIL",
     "return EXIT_OK", KILLED),
    ("quote-without-40-character-cut", SIMPLICIAL,
     "return repr(text) if len(text) <= 40 else f\"{text[:40]!r}...\"",
     "return repr(text)", KILLED),
    ("apply-face-cancels-bit-i-only", SIMPLICIAL,
     "b = i - 1 if i and (W >> (i - 1)) & 3 == 1 else i", "b = i", KILLED),
    ("snf-sweep-without-late-deferral", HOMOLOGY,
     "            elif late:\n", "            elif True:\n", KILLED),
    ("homology-ignores-clearing", HOMOLOGY,
     "smith_normal_form(M, set(snfs[-1].cleared))",
     "smith_normal_form(M, set())", KILLED),
    ("reduce-base-face-in-k-keeps-its-word", SPACES,
     "R.set_faces(h, [(new[seed_of[b]], (1 << (n - 1)) - 1)",
     "R.set_faces(h, [(new[seed_of[b]], w)", KILLED),
    ("level-size-counts-one-word-too-many", EXPK,
     "return sum(comb(n, d) for d in S.dim_of)",
     "return sum(comb(n + 1, d) for d in S.dim_of)", KILLED),
    ("expk-f-vector-without-sign", EXPK,
     "(-1) ** t * comb(n, t) * subsets[n - t]",
     "comb(n, t) * subsets[n - t]", KILLED),
    ("parse-space-without-dimension-refusal", SPACES,
     "    if 0 in dims:  # counts are >= 0\n"
     "        raise SimplicialError(\"sphere dimensions must be >= 1\")\n",
     "", KILLED),
    ("parse-space-dimension-refusal-after-cap", SPACES,
     "    if 0 in dims:  # counts are >= 0\n"
     "        raise SimplicialError(\"sphere dimensions must be >= 1\")\n"
     "    for m in dims:\n"
     "        if m + 1 > max_cells:\n"
     "            raise ResourceCapError(m, m + 1, m + 1, max_cells)\n",
     "    for m in dims:\n"
     "        if m + 1 > max_cells:\n"
     "            raise ResourceCapError(m, m + 1, m + 1, max_cells)\n"
     "    if 0 in dims:  # counts are >= 0\n"
     "        raise SimplicialError(\"sphere dimensions must be >= 1\")\n",
     KILLED),
    ("cli-without-out-of-memory-exit", CLI,
     "    except (MemoryError, OverflowError):  # a summand too large to build\n"
     "        print(\"error: out of memory\", file=sys.stderr)\n"
     "        return EXIT_CAP\n", "", KILLED),
    # quadratic on a wedge's repeated face object, such as s150000's
    ("set-faces-without-id-dedup", SIMPLICIAL,
     "for base, word in {id(f): f for f in faces}.values():",
     "for base, word in faces:", SPEED),
    # any +-1 is a valid pivot; only the fill-in it makes differs
    ("snf-worklist-without-singleton-recheck", HOMOLOGY,
     "            if not (prow and prow.get(pc) in (1, -1)\n"
     "                    and (len(prow) == 1 or len(col_rows[pc]) == 1)):",
     "            if not (prow and prow.get(pc) in (1, -1)):", SPEED),
    ("snf-keeps-emptied-rows", HOMOLOGY,
     "            if not row:\n                del rows[r]\n"
     "            elif len(row) == 1:",
     "            if len(row) == 1:", SPEED),
    ("snf-keeps-emptied-columns-of-the-pivot-row", HOMOLOGY,
     "            if not col:\n                del col_rows[c]\n"
     "            elif len(col) == 1:\n                work.append((*col, c))",
     "            if len(col) == 1:\n                work.append((*col, c))",
     SPEED),
    # any least |v| is a valid pivot; the shortest row makes less fill-in
    # (three random 300 x 300 matrices of 2% entries in {3, +-2, 4, +-6}:
    # 20 s with it, 35 s without)
    ("least-without-row-tie-break", HOMOLOGY,
     "key=lambda r: (abs(rows[r][c]),\n"
     "                                           len(rows[r]))), c",
     "key=lambda r: abs(rows[r][c])), c", SPEED),
    # the suffix cut still prunes every subset that cannot cover
    ("subset-search-without-room-cut", EXPK,
     "            if (full ^ now).bit_count() > room:\n                continue\n",
     "", SPEED),
]


def copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=lambda d, names: [
        n for n in names if n in SKIP
        or Path(d, n) == ROOT / "perfbench" / "out"])


def run_tier1(checkout: Path) -> str:
    """'passed', 'failed' or 'timeout': tier-1 run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep
               .join([str(checkout / "src")] + ([os.environ["PYTHONPATH"]]
                                               if "PYTHONPATH" in os.environ
                                               else [])))
    proc = subprocess.Popen(TIER1, cwd=checkout, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=TIMEOUT_S) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:  # the tests' own child processes too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_mutant(file: str | None = None, old: str = "", new: str = ""
               ) -> tuple[str, float]:
    """(outcome, seconds) of tier-1 on a fresh copy, with ``old`` replaced
    by ``new`` in ``file`` unless file is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp, "repo")
        copy_checkout(checkout)
        if file is not None:
            path = checkout / file
            path.write_text(path.read_text().replace(old, new))
        start = time.perf_counter()
        outcome = run_tier1(checkout)
        return outcome, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    for name, file, old, _, _ in MUTANTS:  # every mutant must still apply
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            print(f"{name}: old occurs {count} times in {file}")
            return 2
    outcome, secs = run_mutant()
    print(f"{'unmutated':8} {secs:6.1f}s  {outcome}", flush=True)
    if outcome != "passed":
        return 2
    survivors = 0
    for name, file, old, new, expect in chosen:
        outcome, secs = run_mutant(file, old, new)
        killed = outcome != "passed"
        if expect == KILLED:
            survivors += not killed
            note = "" if killed else "SURVIVED, expected killed"
        else:
            note = f"killed, listed as {expect}" if killed else expect
        print(f"{'killed' if killed else 'survived':8} {secs:6.1f}s  {name}"
              f"{' (timeout)' if outcome == 'timeout' else ''}"
              f"{'  ' + note if note else ''}", flush=True)
    print(f"{len(chosen)} run, {survivors} marked killed survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
