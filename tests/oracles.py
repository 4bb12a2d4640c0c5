"""Independent oracles used by the tests.

Degeneracy words are modelled by their action on monotone index tuples of
the standard simplex (s_j duplicates entry j, d_i deletes entry i), so word
algebra can be checked without any normal-form machinery.  Degeneracy sets
and the subset normal form are checked against the exact membership test
s_i(d_i(x)) == x and the face-by-face stripper they replaced.  Integer matrix
facts are checked against brute-force cofactor determinants and minors, and
the two-phase Smith normal form against the single-phase elimination it
replaced.  The Euler characteristic of exp_k X is checked against the
configuration-space stratification.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod

from subsetspace.expk import SubsetSimplex
from subsetspace.homology import SmithResult, SparseIntMatrix
from subsetspace.simplicial import (FormalSimplex, SimplicialSet,
                                    SimplicialError, apply_face,
                                    compose_degeneracy)


def s_on_tuple(t: tuple[int, ...], j: int) -> tuple[int, ...]:
    assert 0 <= j <= len(t) - 1
    return t[:j + 1] + t[j:]


def d_on_tuple(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    assert 0 <= i <= len(t) - 1
    return t[:i] + t[i + 1:]


def eval_word(word: tuple[int, ...], base_dim: int) -> tuple[int, ...]:
    """The monotone surjection encoded by a degeneracy word, as the image
    tuple of (0, ..., base_dim); operators apply right to left."""
    t = tuple(range(base_dim + 1))
    for j in reversed(word):
        t = s_on_tuple(t, j)
    return t


def all_degenerate_tuples(base_dim: int, length: int) -> set[tuple[int, ...]]:
    """Closure of the identity tuple under degeneracy operators, keeping the
    tuples reached after exactly `length` applications."""
    frontier = {tuple(range(base_dim + 1))}
    for _ in range(length):
        frontier = {s_on_tuple(t, j)
                    for t in frontier for j in range(len(t))}
    return frontier


def det(m: list[list[int]]) -> int:
    """Cofactor-expansion integer determinant (small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        if m[0][c]:
            minor = [row[:c] + row[c + 1:] for row in m[1:]]
            total += (-1) ** c * m[0][c] * det(minor)
    return total


def minors_gcd(m: list[list[int]], r: int) -> int:
    """gcd of all r x r minors."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    g = 0
    for rs in combinations(range(nrows), r):
        for cs in combinations(range(ncols), r):
            sub = [[m[i][j] for j in cs] for i in rs]
            g = gcd(g, det(sub))
    return g


def rank_over_q(m: list[list[int]]) -> int:
    """Rank via fraction elimination, independent of the SNF code."""
    rows = [[Fraction(v) for v in row] for row in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def degeneracy_set(x: FormalSimplex, S: SimplicialSet) -> frozenset[int]:
    """Indices i with x in the image of s_i, by the exact membership test
    s_i(d_i(x)) == x."""
    if x.dim == 0:
        return frozenset()
    return frozenset(i for i in range(x.dim)
                     if apply_face(x, i, S).degenerate(i) == x)


def subset_degeneracy_set(A, S: SimplicialSet) -> frozenset[int]:
    """Common degeneracy indices of all elements, by the membership test;
    nonempty iff the subset is degenerate as a simplex of exp_k S."""
    out: frozenset[int] | None = None
    for a in A:
        d = degeneracy_set(a, S)
        out = d if out is None else out & d
        if not out:
            return frozenset()
    return out if out is not None else frozenset()


def strip_degeneracies_iterative(A, S: SimplicialSet, order: str = "min"
                                 ) -> tuple[tuple[int, ...], SubsetSimplex]:
    """word . core by stripping one common degeneracy index at a time with
    d_i: the smallest first (order 'min') or a seeded random choice (order
    'random:<seed>')."""
    elems = sorted(set(A))
    if not elems:
        raise SimplicialError("cannot strip an empty subset")
    rng = None
    if order.startswith("random:"):
        rng = random.Random(int(order.split(":", 1)[1]))
    stripped: list[int] = []
    while True:
        common = subset_degeneracy_set(elems, S)
        if not common:
            break
        i = rng.choice(sorted(common)) if rng else min(common)
        stripped.append(i)
        elems = sorted({apply_face(a, i, S) for a in elems})
    word: tuple[int, ...] = ()
    for j in reversed(stripped):
        word = compose_degeneracy(word, j)
    return word, SubsetSimplex.of(elems)


def generalized_binomial(x: int, j: int) -> int:
    """C(x, j) = x (x-1) ... (x-j+1) / j!, for any integer x."""
    return prod(x - t for t in range(j)) // factorial(j)


def subset_space_euler(chi: int, k: int) -> int:
    """chi(exp_k X) = sum_{j=1..k} C(chi(X), j): exp_k X is stratified by
    the unordered configuration spaces B_j X, with chi_c(B_j X) =
    C(chi(X), j)."""
    return sum(generalized_binomial(chi, j) for j in range(1, k + 1))


def smith_normal_form_reference(M) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic.

    Accepts a SparseIntMatrix or a dense list of rows; the input is not
    mutated.  Pivot selection is smallest nonzero magnitude with ties broken
    by lowest (row, column), which controls entry growth and makes the
    elimination deterministic.
    """
    if isinstance(M, SparseIntMatrix):
        items = list(M.entries())
    else:
        items = [(r, c, v) for r, row in enumerate(M)
                 for c, v in enumerate(row) if v]

    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in items:
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            col_rows.setdefault(c, set()).add(r)
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del rows[r]
                col_rows[c].discard(r)
                if not col_rows[c]:
                    del col_rows[c]

    def row_sub(dst: int, src: int, q: int) -> None:
        # row_dst -= q * row_src
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) - q * v)

    def col_sub(dst: int, src: int, q: int) -> None:
        # col_dst -= q * col_src
        for r in list(col_rows.get(src, set())):
            v = rows[r][src]
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) - q * v)

    def find_pivot() -> tuple[int, int, int]:
        best = None
        for r in rows:
            for c, v in rows[r].items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
        return best[1], best[2], None if best is None else best[0]

    divisors: list[int] = []
    while rows:
        pr, pc, _ = find_pivot()
        while True:
            pv = rows[pr][pc]
            # clear the pivot column by row operations
            for r in sorted(col_rows[pc] - {pr}):
                row_sub(r, pr, rows[r][pc] // pv)
            if col_rows.get(pc, set()) != {pr}:
                # floor-division remainders are smaller than |pv|; re-pivot
                pr = min(col_rows[pc] - {pr})
                continue
            # clear the pivot row by column operations
            for c in sorted(set(rows[pr]) - {pc}):
                col_sub(c, pc, rows[pr][c] // pv)
            if set(rows[pr]) != {pc}:
                pc = min(set(rows[pr]) - {pc})
                continue
            # pivot must divide every remaining entry for the divisor chain
            pv = rows[pr][pc]
            bad = None
            for r in sorted(rows):
                if r == pr:
                    continue
                for c in sorted(rows[r]):
                    if rows[r][c] % pv:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(pr, bad, -1)
        divisors.append(abs(rows[pr][pc]))
        set_entry(pr, pc, 0)
    return SmithResult(rank=len(divisors), divisors=divisors)
